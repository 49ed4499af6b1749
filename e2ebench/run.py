"""End-to-end benchmark of the same/different dictionary pipeline.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) against the checkout's ``src/``.  Untraced, the
set-up is first repeated in ``SETUP_SAMPLES - 1`` throw-away processes,
and ``setup_s`` (and every other figure measured during set-up) is the
median over those and the measured process.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).
See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-ups per untraced run, the measured one included.
SETUP_SAMPLES = {"table6_atpg": 5, "proxy10k_build": 3, "fleet_sessions": 2}
#: A run that has not finished by then is killed and reported as failed.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


#: The worker currently running, for the watchdog.
_current = []


def spawn(args, extra):
    """Start a worker; returns (process, its set-up figures)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(time.perf_counter()), *extra]
    # Its own process group, so a kill also reaches the daemon it starts.
    proc = subprocess.Popen(command, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    _current[:] = [proc]
    for line in proc.stdout:
        if line.startswith("READY "):
            return proc, json.loads(line[6:])
    kill(proc)
    raise RuntimeError("worker ended before finishing its set-up")


def kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    expired = threading.Event()

    def watchdog() -> None:
        expired.set()
        for proc in _current:
            kill(proc)

    timer = threading.Timer(DEADLINE_S, watchdog)
    timer.daemon = True
    timer.start()
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            proc, figures = spawn(args, ["--setup-only"])
            proc.stdout.read()
            if proc.wait() != 0:
                return fail("a set-up-only worker failed")
            samples.append(figures)
    proc, figures = spawn(args, [])
    samples.append(figures)
    out, _ = proc.communicate()
    timer.cancel()
    if expired.is_set():
        return fail(f"the run did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        return fail(f"the worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        # Figures measured during set-up are medians over every set-up.
        for key in samples[0]:
            metrics[key] = statistics.median(s[key] for s in samples)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        return fail(f"the worker did not report {missing}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - no result line, non-zero exit
        sys.exit(fail(f"{type(exc).__name__}: {exc}"))
