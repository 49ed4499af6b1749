"""Per-layer metrics of a traced run, from spans and the program's counters.

Times are span self times (seconds, ``_s``) or per-call medians
(milliseconds, ``_ms``).  Counts come from the ``repro.obs`` registry of
the workload process, or, on ``fleet_sessions``, from the daemon's
``GET /metrics``.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict

from spans import Spans

#: Counters read as they are (the name in the program is the metric name).
COUNTS = (
    "atpg.sat.calls", "atpg.sat.unsat", "atpg.sat.conflicts",
    "atpg.podem.calls", "atpg.podem.backtracks",
    "faultsim.faults_simulated", "faultsim.patterns_applied",
    "procedure1.candidates_evaluated", "procedure2.attempts",
    "procedure2.replacements",
    "diagnosis.candidates_scored", "diagnosis.multiplets_checked",
    "serve.session_observations", "serve.daemon.http_requests",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(spans: Spans, name: str) -> float:
    durations = spans.durations(name)
    return median(durations) * 1e3 if durations else 0.0


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span costs (enter, exit, bookkeeping)."""
    probe = Spans(True)
    started = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - started) / samples


def derive(spans: Spans, local: Dict[str, float], remote: Dict[str, float],
           extra: Dict[str, float]) -> Dict[str, float]:
    """``local``: registry deltas of this process; ``remote``: the daemon's
    counter deltas (empty when no daemon served); ``extra``: figures only
    the workload knows (``atpg.tests``, ``store.artifact_bytes``,
    ``daemon.wire_ms``, ``fleet.noise_masked_units``,
    ``fleet.no_suggestion_stops``)."""
    own = spans.self_times()
    t = lambda name: own.get(name, 0.0)  # noqa: E731
    counts = remote if remote else local
    intern = (local.get("kernel.pack_seconds.total", 0.0)
              + local.get("kernel.vector_pack_seconds.total", 0.0))
    p1 = local.get("build.procedure1_seconds.total", 0.0)
    p2 = local.get("build.procedure2_seconds.total", 0.0)
    # ResponseTable.build interns the table it makes, so on the netlist
    # path interning sits inside sim.responses; a table handed straight
    # to build() is interned inside the build call.
    intern_in_sim = t("sim.responses") > 0.0
    out = {
        "circuit.prepare_s": t("circuit.load") + t("circuit.prepare")
        + t("faults.collapse"),
        "atpg.diag_s": t("atpg.diag"),
        "atpg.ndetect_s": t("atpg.10det"),
        "atpg.tests": extra.get("atpg.tests", 0),
        "atpg.sat.useful_share": _ratio(local.get("atpg.sat.sat", 0),
                                        local.get("atpg.sat.calls", 0)),
        "sim.responses_s": t("sim.responses") - (intern if intern_in_sim else 0.0),
        "build.intern_s": intern,
        "build.procedure1_s": p1,
        "build.procedure2_s": p2,
        "build.unreported_s": t("build") - p1 - p2
        - (0.0 if intern_in_sim else intern),
        "procedure2.useful_share": _ratio(
            local.get("procedure2.replacements", 0),
            local.get("procedure2.attempts", 0)),
        "store.save_s": t("store.save"),
        "store.load_s": t("store.load"),
        "store.artifact_bytes": extra.get("store.artifact_bytes", 0),
        "serve.lookup_ms": _median_ms(spans, "serve.lookup"),
        "serve.flip_lookup_ms": _median_ms(spans, "serve.flip_lookup"),
        "session.observe_ms": _median_ms(spans, "session.observe"),
        "session.suggest_ms": _median_ms(spans, "session.suggest"),
        "daemon.start_s": t("daemon.start"),
        "daemon.calls_s": t("daemon.call"),
        "daemon.wire_ms": extra.get("daemon.wire_ms", 0.0),
        "fleet.noise_masked_units": extra.get("fleet.noise_masked_units", 0),
        "fleet.no_suggestion_stops": extra.get("fleet.no_suggestion_stops", 0),
    }
    for name in COUNTS:
        source = local if name.startswith(("atpg.", "faultsim.", "procedure")) \
            else counts
        out[name] = source.get(name, 0)
    # Coverage: the share of the traced wall time that program-layer spans
    # account for; the benchmark's own untimed work is left out of both.
    roots = spans.roots_wall() - t("bench.untimed")
    root_self = sum(own.get(name, 0.0) for name in ("setup", "run", "replay"))
    out["trace.coverage"] = _ratio(roots - root_self, roots)
    out["trace.overhead_s"] = len(spans.records) * span_cost()
    return out
