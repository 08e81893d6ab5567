"""heckepoly benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root; the program is imported from ``src/``
unchanged.  Every sample is a fresh single-threaded interpreter (see
``child.py``), started again until the next one would end past
``--seconds``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* verify_grid  -- one ``verify --all`` per sample, caches starting empty;
* catalog_cold -- 111 construct + self-pairing + closed-form norm requests
  per sample, caches starting empty, spec groups in a per-sample order;
* session_warm -- each sample builds a pool of family polynomials, then
  replays a stream of 186 mixed requests four times on warm caches.

With ``--trace 0`` the last stdout line is the end-to-end result.  Each
request (a verify case, a catalog or a session request) is timed, scaled
by the host's speed around it (see ``workloads.SpeedProbe``), and taken at
its median over the run's repeats of it:

* ``wall_s``          sum of those medians, i.e. one sample's op set;
* ``latency_p50_ms``, ``latency_p90_ms``  their median and 90th percentile;
* ``setup_s``         median of spawn -> ``import heckepoly`` done (plus the
  pool build for session_warm), speed-scaled, over the run's interpreters;
* ``peak_rss_mb``     median peak RSS per interpreter, from ``os.wait4``.

The summary lines before the result also give the unscaled sample times
and ``failed_share``.  Any failed operation, differing verify report or
silent traced boundary makes ``correct`` false and the exit code 1.

With ``--trace 1`` the program's public functions are wrapped (see
``tracer.py``); the result holds the per-layer metrics (median over the
traced samples), the traced wall time and its ratio to the untraced first
sample of the same run.

``--smoke`` runs every workload on a tiny input, traced and untraced, and
exits non-zero if a gate or a wrapper fails; it takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_grid", "catalog_cold", "session_warm")
OPS = {"verify_grid": "cases", "catalog_cold": "requests", "session_warm": "requests"}
CHILD_TIMEOUT_S = 170
# Nominal time of the reference loop in workloads.SpeedProbe: about its
# median on an idle core of a 2.1 GHz x86-64 host under CPython 3.11.
REF_PROBE_S = 0.001

# Per-layer boundaries that must record calls on each workload; a wrapper
# that is bypassed (for example by a copy under another name) shows as 0.
# verify_grid also needs cases in every suite (the ``verify.*.cases``
# metrics of BENCHMARK.json).
_PAIRINGS = ("ct_pairing", "gauss_pairing", "laguerre_pairing")
EXPECT_BUSY = {
    "verify_grid": [
        "operators.Operator.__call__.calls",
        "polynomials.Polynomial.__init__.calls",
        *(f"pairings.{fn}.calls" for fn in _PAIRINGS + ("dunkl_pairing", "norm_formula")),
        "families.jack.triangular.calls", "families.hermite.gram.calls",
        "families.laguerre.gram.calls", "families.nonsym_jack.calls",
        "families.sigma_a.calls", "families.sigma_b.calls",
        "shift.duality_check.calls", "shift.shift_apply.calls",
        "shift.calibrate.calls", "raising.raising_apply.calls",
        "raising.rodrigues.calls",
    ],
    "catalog_cold": [
        "polynomials.Polynomial.__init__.calls",
        *(f"pairings.{fn}.calls" for fn in _PAIRINGS + ("norm_formula",)),
        "families.jack.triangular.calls", "families.hermite.gram.calls",
        "families.laguerre.gram.calls",
    ],
    "session_warm": [
        "operators.Operator.__call__.calls",
        *(f"pairings.{fn}.calls" for fn in _PAIRINGS + ("norm_formula",)),
        "families.jack.triangular.calls", "raising.raising_apply.calls",
        "raising.rodrigues.calls", "shift.shift_apply.calls",
        "shift.duality_check.calls", "shift.calibrate.calls",
    ],
}


class Failure(Exception):
    """A child that crashed or did not answer."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_POLY_THREADS", None)  # suites run single-threaded
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every sample
    return env


def run_child(workload: str, seed: int, index: int, *flags: str) -> dict:
    """Spawn one child; return its result with ``setup_s`` and ``rss_mb``."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(index), *flags]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        lines = proc.stdout.read().splitlines()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not ready.startswith('{"ready"'):
        raise Failure(f"{workload} child exited with {proc.returncode}")
    message = json.loads(lines[-1]) if lines else {}
    if "result" not in message:
        raise Failure(f"{workload} child gave no result")
    result = message["result"]
    result["setup_s"] = setup_s
    result["rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


def run_samples(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Fresh-interpreter samples until the next one would overrun
    ``seconds``.  In a traced run the first sample is untraced and at
    least one traced sample follows."""
    flags = ["--smoke"] if smoke else []
    samples, t0 = [], perf_counter()
    while True:
        traced = trace and bool(samples)
        samples.append(run_child(workload, seed, len(samples), *flags,
                                 *(["--trace"] if traced else [])))
        elapsed = perf_counter() - t0
        if trace and len(samples) < 2:
            continue
        if smoke or elapsed + elapsed / len(samples) > seconds:
            return samples


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def check(workload: str, samples: list[dict], spec: dict, trace: bool) -> list[str]:
    """Correctness gates over every sample of the run."""
    errors = [e for s in samples for e in s.get("errors", [])]
    if workload == "verify_grid":
        digests = {s["sha256"] for s in samples}
        if len(digests) != 1:
            errors.append(f"verify reports differ between samples: {sorted(digests)}")
    if trace:
        layers = samples[-1]["layers"]
        busy = EXPECT_BUSY[workload]
        if workload == "verify_grid":
            busy = busy + [m["name"] for m in spec["per_layer"]
                           if m["name"].startswith("verify.") and m["name"].endswith(".cases")]
        for key in busy:
            if not layers.get(key):
                errors.append(f"traced boundary {key} recorded no calls")
    return errors


def scaled_repeats(sample: dict) -> list[list[float]]:
    """The sample's latencies, each multiplied by REF_PROBE_S over the
    reference loop's time around it: about 1 on an idle core, below 1 while
    other tenants of the host slow this interpreter down."""
    return [[x * REF_PROBE_S / p for x, p in zip(lat, probes, strict=True)]
            for lat, probes in zip(sample["repeats"], sample["probe_s"], strict=True)]


def speed_factor(sample: dict) -> float:
    """REF_PROBE_S over the sample's median reference-loop time."""
    return REF_PROBE_S / statistics.median(p for r in sample["probe_s"] for p in r)


def per_request(samples: list[dict]) -> list[float]:
    """Each request's median speed-scaled latency over the run's repeats.

    Every cold sample, and every replay of the session stream, sends the
    same requests (the catalog in another order each sample, reported in
    a fixed one).  Scaling by the reference loop takes out slow stretches
    of the host; the median over repeats takes out what the loop missed."""
    repeats = [r for s in samples for r in scaled_repeats(s)]
    if len({len(r) for r in repeats}) != 1:
        raise Failure("repeats of one seed sent different numbers of requests")
    return [statistics.median(column) for column in zip(*repeats)]


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    medians = per_request(samples)
    values = {
        "wall_s": sum(medians) / 1e3,
        "latency_p50_ms": statistics.median(medians),
        "latency_p90_ms": p90(medians),
        "setup_s": statistics.median(s["setup_s"] * speed_factor(s) for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
    }
    repeats = sum(len(s["repeats"]) for s in samples)
    counts = {
        "wall_s": repeats,
        "latency_p50_ms": len(medians),
        "latency_p90_ms": len(medians),
        "setup_s": len(samples),
        "peak_rss_mb": len(samples),
    }
    return values, counts


def per_layer(metrics: list[dict], samples: list[dict]) -> dict:
    """Median over the traced samples; times are scaled by each sample's
    speed factor."""
    untraced, traced = samples[0], samples[1:]

    def scaled(sample, name, unit):
        value = sample["layers"].get(name, 0)
        return value * speed_factor(sample) if unit == "s" else value

    merged = {m["name"]: statistics.median(scaled(s, m["name"], m["unit"]) for s in traced)
              for m in metrics}
    busy = merged["operators.Operator.__call__.busy_s"]
    terms = merged["operators.Operator.__call__.input_terms"]
    merged["operators.images_per_s"] = terms / busy if busy else 0.0
    merged["trace.wall_s"] = statistics.median(
        w * speed_factor(s) for s in traced for w in s["walls"])
    merged["trace.overhead"] = merged["trace.wall_s"] / statistics.median(
        w * speed_factor(untraced) for w in untraced["walls"])
    return merged


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Returns (result dict, summary lines); raises Failure on a crash."""
    spec = load_spec()
    samples = run_samples(workload, seed, seconds, trace, smoke)
    errors = check(workload, samples, spec, trace)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if errors and not failed:
        failed = 1  # a differing report or a silent boundary fails the run
    lines = [f"error: {e}" for e in errors[:20]]
    if trace:
        metrics = spec["per_layer"]
        values = per_layer(metrics, samples)
    else:
        metrics = spec["end_to_end"]
        values, counts = end_to_end(samples)
        for m in metrics:
            lines.append(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}"
                         f" (n={counts[m['name']]})")
        walls = [w for s in samples for w in s["walls"]]
        speeds = [speed_factor(s) for s in samples]
        lines.append(f"unscaled walls {min(walls):.4g}-{max(walls):.4g} s (median"
                     f" {statistics.median(walls):.4g}) for {len(samples[0]['repeats'][0])}"
                     f" {OPS[workload]} each; speed factors {min(speeds):.3f}-{max(speeds):.3f}")
    lines.append(f"failed_share = {failed / max(attempted, 1):.6g}"
                 f" ({failed} of {attempted} {OPS[workload]}, {len(samples)} children)")
    result = {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return result, lines


def smoke() -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = perf_counter()
            try:
                result, lines = run(workload, 1, 0.0, trace, smoke=True)
            except Failure as err:
                result, lines = {"correct": False}, [f"error: {err}"]
            ok = result["correct"]
            status |= not ok
            print(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'}"
                  f" in {perf_counter() - t0:.1f} s")
            for line in lines:
                if not ok or line.startswith("error"):
                    print("  " + line)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload, traced and untraced")
    args = parser.parse_args()
    if not (SRC / "heckepoly" / "__init__.py").is_file():
        print(f"error: no heckepoly sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
