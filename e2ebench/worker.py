"""One workload in one fresh process (started by ``run.py``).

Prints ``READY {json}`` once set-up is done, with ``setup_s`` and any
figures the workload measured during set-up, all on the host clock
(``hostclock.py``).  Then, unless ``--setup-only``, it runs the timed
phase, checks the outputs and prints one JSON result line.
"""

import argparse
import json
import os
import shutil
import sys
import time

from hostclock import HostClock, pin_to_one_cpu

# Pinned and sampling before the heavy imports, so that set-up is timed on
# the clock from here on.
pin_to_one_cpu()
CLOCK = HostClock()
CLOCK_STARTED = (time.perf_counter(), CLOCK.now())

import common  # noqa: E402
import oracles  # noqa: E402
from common import ROOT  # noqa: E402

WORK = ROOT / ".e2ebench-work"
TRACES = ROOT / ".e2ebench-traces"


def workload_class(name: str):
    from wl_build import Proxy10kBuild, Table6Atpg
    from wl_fleet import FleetSessions

    for cls in (Table6Atpg, Proxy10kBuild, FleetSessions):
        if cls.name == name:
            return cls
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent at Popen")
    args = parser.parse_args()

    common.use_checkout_sources()
    from spans import Spans

    cls = workload_class(args.workload)
    spans = Spans(bool(args.trace))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = cls(args.seed, workdir, spans, CLOCK)
    try:
        before = common.registry_counts()
        measured = workload.setup()
        # Interpreter start-up in wall seconds (the clock was not running
        # yet), the rest on the clock.
        wall_at_clock, clock_at_start = CLOCK_STARTED
        measured["setup_s"] = (wall_at_clock - args.spawned_at
                               + CLOCK.now() - clock_at_start)
        print("READY " + json.dumps(measured), flush=True)
        if args.setup_only:
            return 0
        workload.run(args.seconds, bool(args.trace))
        local = common.delta(common.registry_counts(), before)
        checks = oracles.Checks()
        workload.check(checks)
        attempted, failed = workload.counts()
        if args.trace:
            import layers

            extra = workload.layer_extras()
            metrics = layers.derive(spans, local, extra.pop("remote", {}),
                                    extra)
            spans.write(TRACES / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = workload.metrics()
    finally:
        daemon_rss = workload.close()
        CLOCK.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mib"] = (
            daemon_rss if daemon_rss is not None else common.peak_rss_mib()
        )
    taken = sorted(CLOCK.taken)
    print(f"clock: {len(taken)} samples, median {taken[len(taken) // 2] * 1e3:.3f}"
          f" ms, quartiles {taken[len(taken) // 4] * 1e3:.3f}-"
          f"{taken[3 * len(taken) // 4] * 1e3:.3f} ms, "
          f"{CLOCK.overhead:.2f} s in samples", file=sys.stderr)
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
