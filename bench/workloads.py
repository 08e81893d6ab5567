"""The three benchmark workloads, as run inside one child interpreter.

All inputs derive from the benchmark seed; the program sees only the
generated inputs.  Each workload is a closed loop with one client: the
next request is sent when the previous one has returned.

verify_grid   one ``heckepoly verify --all --format json`` over a reduced
              acceptance grid (every suite, registry order).  Dominated by
              operator application and polynomial arithmetic.
catalog_cold  family polynomials built by their default route, each paired
              with itself and compared with both closed-form norms.
              Dominated by pairing moments and Gram solves.
session_warm  one long-lived interpreter with a pool of family polynomials
              and warm caches, serving a seeded mix of raising, shift,
              Rodrigues, duality and pairing requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from time import perf_counter

from heckepoly import cli, verify
from heckepoly.combinatorics import monomial_symmetric, partitions_up_to
from heckepoly.families import construct
from heckepoly.pairings import (
    ScaledRational,
    ct_pairing,
    gauss_pairing,
    laguerre_pairing,
    norm_formula,
    shift_constants,
)
from heckepoly.parameters import FamilySpec
from heckepoly.raising import raising_apply, raising_constant, rodrigues
from heckepoly.shift import calibrate, duality_check, shift_apply

HALF = Fraction(1, 2)
FAMILIES = ("jack", "hermite", "laguerre")


class SpeedProbe:
    """Times a fixed reference loop between requests (at the start and end
    of each repeat of the request set, and otherwise at most every
    ``EVERY_S`` seconds).  Other tenants of the host slow this interpreter
    down, by up to 2x and for seconds to minutes at a time; the loop's time
    next to a request tells the parent how much.  The probe runs outside
    every timed span."""

    EVERY_S = 0.01

    def __init__(self):
        # per repeat: for each request, the mean loop time of the two
        # probes around it
        self.repeats: list[list[float]] = []

    def start_repeat(self) -> None:
        self._probes: list[tuple[int, float]] = []  # (requests done, seconds)
        self._done = 0
        self._measure()

    def between_requests(self) -> None:
        self._done += 1
        if perf_counter() >= self._due:
            self._measure()

    def finish_repeat(self) -> None:
        if self._probes[-1][0] != self._done:
            self._measure()
        probes, j, around = self._probes, 0, []
        for i in range(self._done):
            while probes[j + 1][0] <= i:
                j += 1
            around.append((probes[j][1] + probes[j + 1][1]) / 2)
        self.repeats.append(around)

    def _measure(self) -> None:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i % 97 + 1)
        end = perf_counter()
        self._probes.append((self._done, end - start))
        self._due = end + self.EVERY_S


def _spec(family: str, n: int, beta: int) -> FamilySpec:
    gamma = HALF if family == "laguerre" else None
    return FamilySpec(family, n, beta, gamma)


def _pairing(f, g, spec: FamilySpec) -> ScaledRational:
    if spec.family == "jack":
        return ScaledRational(ct_pairing(f, g, spec))
    if spec.family == "hermite":
        return gauss_pairing(f, g, spec)
    return laguerre_pairing(f, g, spec)


# ---------------------------------------------------------------------------
# verify_grid

# The full acceptance grid (N 2,3; beta 0,1,2; three gammas; weight 4;
# degree 5) takes about a minute per run, longer than one benchmark run may
# last, so each sample runs every suite on a smaller grid of the same shape.
VERIFY_GRID = {
    "n-list": "2,3", "beta-list": "0,1", "gamma-list": "1/2",
    "max-weight": "2", "degree": "3", "pairs": "2", "rand-polys": "2",
}
VERIFY_SMOKE = {
    "n-list": "2", "beta-list": "1", "gamma-list": "1/2",
    "max-weight": "2", "degree": "2", "pairs": "1", "rand-polys": "1",
}


def verify_argv(seed: int, smoke: bool) -> list[str]:
    argv = ["verify", "--all", "--format", "json", "--seed", str(seed)]
    for key, value in (VERIFY_SMOKE if smoke else VERIFY_GRID).items():
        argv += [f"--{key}", value]
    return argv


class CaseClock:
    """Per-case latency: time from the suite start or the previous case to
    each ``SuiteReport.record`` call.  Two cheap patches, installed in the
    untraced and the traced run alike."""

    def __init__(self, probe: SpeedProbe):
        self.latencies_ms: list[float] = []
        self._last = 0.0
        record = verify.SuiteReport.record

        def timed_record(report, *args, **kwargs):
            self.latencies_ms.append((perf_counter() - self._last) * 1e3)
            result = record(report, *args, **kwargs)
            probe.between_requests()
            self._last = perf_counter()
            return result

        verify.SuiteReport.record = timed_record
        for name, fn in list(verify.SUITES.items()):
            verify.SUITES[name] = self._starter(fn)

    def _starter(self, fn):
        def run_suite(grid):
            self._last = perf_counter()
            return fn(grid)

        return run_suite


def verify_sample(seed: int, smoke: bool, clock: CaseClock, probe: SpeedProbe) -> dict:
    out = io.StringIO()
    probe.start_repeat()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(verify_argv(seed, smoke))
    except Exception as err:  # a suite that raised fails the sample
        code, crash = None, f"verify raised {type(err).__name__}: {err}"
    wall = perf_counter() - t0
    probe.finish_repeat()
    if code is None:
        return {"walls": [wall], "repeats": [clock.latencies_ms], "attempted": 1,
                "failed": 1, "errors": [crash], "sha256": ""}
    text = out.getvalue()
    report = json.loads(text)
    cases = sum(r["cases_run"] for r in report["reports"])
    failed = sum(r["cases_run"] - r["cases_passed"] for r in report["reports"])
    errors = []
    if code != 0 or not report["all_passed"]:
        errors.append(f"verify exit {code}, all_passed={report['all_passed']}")
    if len(report["reports"]) != len(verify.SUITES):
        errors.append("verify --all ran a different number of suites")
    return {
        "walls": [wall],
        "repeats": [clock.latencies_ms],
        "attempted": cases,
        "failed": failed,
        "errors": errors,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# catalog_cold


def catalog_groups(smoke: bool) -> list[tuple]:
    """(family, N, beta, max weight), one group per spec."""
    if smoke:
        plan = [(2, (1,), 2)]
    else:
        # weights stop at 4 (N=3) and 2 (N=4) so that one cold sample takes
        # about three seconds and a run repeats it about ten times
        plan = [(3, (1, 2, 3), 4), (4, (1,), 2)]
    return [(family, n, beta, weight) for n, betas, weight in plan
            for beta in betas for family in FAMILIES]


def catalog_sample(seed: int, index: int, smoke: bool, probe: SpeedProbe) -> dict:
    """Every label of every group: the groups in an order drawn from the
    seed and the sample's index, labels within a group in increasing
    weight, as ``table`` walks them.  Latencies come back in a fixed order.

    The order matters: the cache a request fills serves the later requests
    of its group (so labels are not shuffled across groups, which moved the
    p90 by up to 2x between seeds), and the heap earlier groups leave makes
    garbage collection slower for later ones.  Drawing a new order per
    sample lets a run's median per request average over orders."""
    groups = catalog_groups(smoke)
    order = list(range(len(groups)))
    random.Random(seed * 7919 + index).shuffle(order)
    slots = []  # (position in the fixed order, group, label)
    for g, (family, n, beta, weight) in enumerate(groups):
        slots += [(g, family, n, beta, lam) for lam in partitions_up_to(weight, n)]
    requests = sorted(range(len(slots)), key=lambda i: order.index(slots[i][0]))
    latencies, errors = [0.0] * len(slots), []
    probe.start_repeat()
    t0 = perf_counter()
    for i in requests:
        _, family, n, beta, lam = slots[i]
        spec = _spec(family, n, beta)
        start = perf_counter()
        try:
            poly = construct(lam, spec).poly
            value = _pairing(poly, poly, spec)
            product = norm_formula(lam, spec, "product_form")
            hook = norm_formula(lam, spec, "hook_form")
            ok = value == product and value == hook
        except Exception as err:  # a crash is one failed request
            ok, value = False, f"{type(err).__name__}: {err}"
        latencies[i] = (perf_counter() - start) * 1e3
        probe.between_requests()
        if not ok:
            errors.append(f"norm mismatch {family} N={n} beta={beta} {lam}: {value}")
    wall = perf_counter() - t0
    probe.finish_repeat()
    around = [0.0] * len(slots)
    for rank, i in enumerate(requests):
        around[i] = probe.repeats[-1][rank]
    probe.repeats[-1] = around
    return {
        "walls": [wall],
        "repeats": [latencies],
        "attempted": len(slots),
        "failed": len(errors),
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# session_warm

SESSION_N = 3
# Per spec (3 families x 2 betas) the stream holds one rodrigues request per
# pool label, one raise per (label of weight <= 2, valid m), both shifts at
# each label of weight <= 1, one duality check and PAIRS pairings.  Seeds
# change the order, the pairing partners and the duality inputs' signs and
# sizes of coefficients, not the amount of work: with random supports, the
# few duality requests alone moved wall_s by 20% between seeds.
PAIRS = 8
# replays per session interpreter; a run starts several interpreters
REPLAYS = 4


class Session:
    """Set-up builds the pool and draws the stream; :meth:`serve` replays
    the stream.  Replays repeat the same requests, so every request after
    the first replay finds the caches the stream itself filled."""

    def __init__(self, seed: int, smoke: bool):
        self.smoke = smoke
        self.n = 2 if smoke else SESSION_N
        self.betas = (1,) if smoke else (1, 2)
        self.weight = 2 if smoke else 3
        self.delta = tuple(range(self.n - 1, -1, -1))
        self.labels = list(partitions_up_to(self.weight, self.n))  # padded to n
        self.low = list(partitions_up_to(1, self.n))
        self.pool = {}
        for family in FAMILIES:
            for beta in self.betas:
                spec = _spec(family, self.n, beta)
                for lam in self.labels + [self._plus_delta(l) for l in self.low]:
                    self.pool[family, beta, lam] = construct(lam, spec)
                upper = spec.with_beta(beta + 1)
                for lam in self.low:
                    self.pool[family, beta + 1, lam] = construct(lam, upper)
                calibrate(family, self.n, beta, spec.gamma)
        rng = random.Random(seed)
        self.stream = []
        for family in FAMILIES:
            for beta in self.betas:
                self.stream += self._draw(_spec(family, self.n, beta), rng)
        rng.shuffle(self.stream)

    def _plus_delta(self, lam):
        return tuple(p + d for p, d in zip(lam, self.delta))

    def _draw(self, spec: FamilySpec, rng: random.Random) -> list[tuple]:
        """The requests for one spec, as (kind, spec, args)."""
        out = [("rodrigues", spec, (lam,)) for lam in self.labels]
        for lam in self.labels:
            rows = sum(1 for p in lam if p)
            if sum(lam) < self.weight:
                out += [("raise", spec, (lam, m)) for m in range(max(rows, 1), self.n + 1)]
        for lam in self.low:
            out += [("shift_G", spec, (lam,)), ("shift_G_hat", spec, (lam,))]
        out.append(("duality", spec, (self._symmetric(rng), self._symmetric(rng))))
        for _ in range(1 if self.smoke else PAIRS):
            out.append(("pair", spec, (rng.choice(self.labels), rng.choice(self.labels))))
        return out

    def _symmetric(self, rng: random.Random):
        """Symmetric cubic with every monomial symmetric function of weight
        <= 3 present, at a seeded coefficient in {-2, -1, 1, 2}."""
        total = None
        for lam in partitions_up_to(3, self.n):
            term = rng.choice((-2, -1, 1, 2)) * monomial_symmetric(self.n, lam)
            total = term if total is None else total + term
        return total

    def serve(self, probe: SpeedProbe) -> dict:
        """Serve the stream REPLAYS times (once for a smoke run)."""
        walls, repeats, errors = [], [], []
        for _ in range(1 if self.smoke else REPLAYS):
            latencies = []
            probe.start_repeat()
            t0 = perf_counter()
            for kind, spec, args in self.stream:
                start = perf_counter()
                try:
                    ok, detail = getattr(self, "_" + kind)(spec, *args)
                except Exception as err:  # a crash is one failed request
                    ok, detail = False, f"{type(err).__name__}: {err}"
                latencies.append((perf_counter() - start) * 1e3)
                probe.between_requests()
                if not ok:
                    errors.append(f"{kind} {spec}: {detail}")
            walls.append(perf_counter() - t0)
            probe.finish_repeat()
            repeats.append(latencies)
        return {
            "walls": walls,
            "repeats": repeats,
            "attempted": len(self.stream) * len(repeats),
            "failed": len(errors),
            "errors": errors,
        }

    def _pair(self, spec, lam, mu):
        f = self.pool[spec.family, spec.beta, lam].poly
        g = self.pool[spec.family, spec.beta, mu].poly
        value = _pairing(f, g, spec)
        expected = norm_formula(lam, spec) if lam == mu else ScaledRational(0)
        return value == expected, f"<{lam},{mu}> = {value}, expected {expected}"

    def _raise(self, spec, lam, m):
        constant, _ = raising_apply(m, self.pool[spec.family, spec.beta, lam])
        expected = raising_constant(lam, m, spec)
        return constant == expected, f"raise {lam} m={m}: {constant} != {expected}"

    def _shift_G(self, spec, lam):
        source = self.pool[spec.family, spec.beta, self._plus_delta(lam)]
        constant, _ = shift_apply("G", source)
        sign = calibrate(spec.family, self.n, spec.beta, spec.gamma).global_sign
        expected = sign * shift_constants(lam, self.n, spec.beta)[0]
        return constant == expected, f"G at {lam}: {constant} != {expected}"

    def _shift_G_hat(self, spec, lam):
        source = self.pool[spec.family, spec.beta + 1, lam]
        constant, _ = shift_apply("G_hat", source)
        sign = calibrate(spec.family, self.n, spec.beta, spec.gamma).global_sign
        expected = sign * shift_constants(lam, self.n, spec.beta)[1]
        return constant == expected, f"G_hat at {lam}: {constant} != {expected}"

    def _rodrigues(self, spec, lam):
        chain = rodrigues(lam, spec)
        return chain.poly == self.pool[spec.family, spec.beta, lam].poly, f"{lam}"

    def _duality(self, spec, f, g):
        return duality_check(f, g, spec), f"duality failed for {f} / {g}"
