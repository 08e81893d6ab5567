"""One benchmark sample in a fresh interpreter.

    python3 child.py WORKLOAD SEED INDEX [--smoke] [--trace]

Writes JSON lines to stdout: ``{"ready": true}`` once ``heckepoly`` is
imported (and, for session_warm, the pool is built), then one
``{"result": ...}`` line.  The parent times set-up from its spawn to the
ready line, and reads peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import sys


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("verify_grid", "catalog_cold", "session_warm"))
    parser.add_argument("seed", type=int)
    parser.add_argument("index", type=int, help="this sample's number in the run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads
    from heckepoly import verify

    probe = workloads.SpeedProbe()
    clock = workloads.CaseClock(probe) if args.workload == "verify_grid" else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(suites=verify.SUITES, callers=[workloads])

    if args.workload == "verify_grid":
        emit({"ready": True})
        result = workloads.verify_sample(args.seed, args.smoke, clock, probe)
    elif args.workload == "catalog_cold":
        emit({"ready": True})
        result = workloads.catalog_sample(args.seed, args.index, args.smoke, probe)
    else:
        session = workloads.Session(args.seed, args.smoke)
        emit({"ready": True})
        result = session.serve(probe)
    result["probe_s"] = probe.repeats
    if tracer is not None:
        result["layers"] = tracer.report()
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
