"""``fleet_sessions``: adaptive diagnosis of a fleet of units over the daemon.

Set-up builds a ~2k-fault proxy artifact (fixed: the product being
served), starts a ``repro-fd daemon`` on it and pins it.  The timed phase
is a closed loop on one keep-alive connection, in passes over the fleet:
``FLEET_UNITS`` units, each carrying one of a fixed, evenly spaced sample
of the artifact's faults.  A pass goes in rounds of ``PLAIN_PER_ROUND``
units plus one partial-advance probe; the first unit of each round is
noisy, and the seed draws its tester noise (which test flips and, for a
passing test, which output fails).  See the README for why the faults
are not drawn by the seed.

Per unit the client (1) looks the full response up, (2) if nothing
matches exactly looks it up again with ``flip_budget: 1`` and no
candidate limit, and (3) runs a session: open it (with flip budget 1
after a failed exact lookup, else 0), advance with ``suggest: true``,
apply each suggested test, stop on ``converged`` or on
``suggested_test: null``, read the final candidates and close it.

The probe opens a fresh session and sends one valid observation followed
by an out-of-range test index.  The daemon rejects the advance with
``unmodeled_response``; the probe counts as failed when the session's
report nevertheless changed (the valid observation was kept).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

import oracles
from common import (PROXY_CALLS1, check_built, children_peak_rss_mib, delta,
                    p90, program_figures, trimmed_mean)

#: The fleet's artifact: the b14p proxy cut to this many faults, with the
#: preset's 160 tests.  It does not depend on the seed.
FLEET_FAULTS = 2000
#: Cold pinning loads per set-up (the median counts as ``load_s``).
PIN_LOADS = 5
#: Units per pass: fault ``k * FLEET_FAULTS // FLEET_UNITS`` for each k.
FLEET_UNITS = 25
#: Plain units per round; the first of them has one flipped test.
PLAIN_PER_ROUND = 5
#: Rounds of the traced run: a fixed amount of work, so every count in
#: two traced runs of one seed is identical.
TRACE_ROUNDS = 4


@dataclass
class Unit:
    fault: int
    observed: List[tuple]
    flipped: Optional[int]


@dataclass
class UnitRecord:
    """What the client saw for one plain unit (checked after timing)."""

    unit: Unit
    exact: List[str]
    flip: Optional[List[str]]
    budget: int
    applied: List[Tuple[int, tuple]] = field(default_factory=list)
    final: List[str] = field(default_factory=list)
    stopped_on: str = ""
    #: Latency of the plain lookup, in seconds.
    lookup_s: float = 0.0
    #: Seconds from the plain lookup to the session's close.
    unit_s: float = 0.0


def make_unit(rng: random.Random, full: List[tuple], n_outputs: int,
              fault: int, noisy: bool) -> Unit:
    """A unit carrying modelled fault ``fault``; a noisy unit's tester flips
    one test drawn by ``rng`` (a failing test reads as a pass, a passing one
    fails one output, also drawn)."""
    observed = [tuple(s) for s in full[fault]]
    flipped = None
    if noisy:
        flipped = rng.randrange(len(observed))
        observed[flipped] = (
            () if observed[flipped] else (rng.randrange(n_outputs),)
        )
    return Unit(fault, observed, flipped)


def run_unit(tx, unit: Unit) -> UnitRecord:
    observed = [list(s) for s in unit.observed]
    doc = tx.diagnose({"observed": observed})
    record = UnitRecord(unit, list(doc["exact"]), None, 0,
                        lookup_s=tx.latencies[-1])
    if not record.exact:
        doc = tx.diagnose({"observed": observed, "flip_budget": 1, "limit": 0})
        record.flip = [name for name, _ in doc["ranked"]]
        record.budget = 1
    sid = tx.open({"flip_budget": record.budget})["session"]
    doc = tx.advance(sid, {"suggest": True})
    while True:
        if doc["report"]["converged"]:
            record.stopped_on = "converged"
            break
        test = doc.get("suggested_test")
        if test is None:
            record.stopped_on = "no_suggestion"
            break
        signature = unit.observed[test]
        record.applied.append((test, signature))
        doc = tx.advance(sid, {"observations": [[test, list(signature)]],
                               "suggest": True})
    record.final = list(tx.advance(sid, {"limit": 0})["candidates"])
    tx.close(sid)
    return record


def run_probe(tx, probe: Tuple[int, tuple], n_tests: int) -> Tuple[bool, str]:
    """Returns (state changed by a rejected advance, rejection code)."""
    test, signature = probe
    opened = tx.open({})
    sid = opened["session"]
    doc = tx.advance(sid, {"observations": [[test, list(signature)],
                                            [n_tests, []]]})
    after = tx.advance(sid, {})["report"]
    tx.close(sid)
    return after != opened["report"], doc.get("code", "")


class HttpTransport:
    """The daemon, as the client sees it."""

    def __init__(self, client, spans) -> None:
        self.client = client
        self.spans = spans

    def _call(self, method: str, path: str, doc=None) -> dict:
        with self.spans.span("daemon.call"):
            _, body = self.client.call(method, path, doc)
        return body

    def diagnose(self, doc):
        return self._call("POST", "/v1/diagnose", doc)

    def open(self, doc):
        return self._call("POST", "/v1/sessions", doc)

    def advance(self, sid, doc):
        return self._call("POST", f"/v1/sessions/{sid}", doc)

    def close(self, sid):
        return self._call("DELETE", f"/v1/sessions/{sid}")

    @property
    def latencies(self) -> List[float]:
        return self.client.latencies


class LocalTransport:
    """The same calls served in-process by ``DiagnosisServer`` and
    ``DiagnosisSession``, single-threaded, for the traced replay."""

    def __init__(self, server, spans, now) -> None:
        from repro.serve.schemas import DiagnoseRequest

        self.server = server
        self.spans = spans
        self.now = now
        self.request = DiagnoseRequest
        self.sessions: Dict[str, object] = {}
        self.latencies: List[float] = []

    def _timed(self, fn):
        started = self.now()
        result = fn()
        self.latencies.append(self.now() - started)
        return result

    def diagnose(self, doc):
        request = self.request.from_dict(doc, default_id="replay")
        name = "serve.flip_lookup" if doc.get("flip_budget") else "serve.lookup"

        def run():
            with self.spans.span(name):
                return self.server.diagnose_one(request)

        outcome = self._timed(run)
        return {"code": outcome.code, "exact": list(outcome.exact),
                "ranked": [[n, s] for n, s in outcome.ranked]}

    def open(self, doc):
        def run():
            with self.spans.span("session.open"):
                return self.server.session(flip_budget=doc.get("flip_budget"))

        session = self._timed(run)
        sid = f"s{len(self.sessions)}"
        self.sessions[sid] = session
        return {"session": sid, "report": session.report()}

    def advance(self, sid, doc):
        session = self.sessions[sid]

        def run():
            try:
                for test, signature in doc.get("observations", ()):
                    with self.spans.span("session.observe"):
                        session.observe(test, signature)
            except ValueError as exc:
                return {"code": "unmodeled_response", "detail": str(exc)}
            candidates = [str(f) for f in session.candidate_faults()]
            limit = doc.get("limit", 10)
            result = {"report": session.report(),
                      "candidates": candidates[:limit] if limit else candidates}
            if doc.get("suggest"):
                with self.spans.span("session.suggest"):
                    result["suggested_test"] = session.suggest_next_test(
                        self.server.config.strategy)
            return result

        return self._timed(run)

    def close(self, sid):
        session = self.sessions.pop(sid)
        return self._timed(lambda: {"report": session.report()})


class FleetSessions:
    name = "fleet_sessions"

    def __init__(self, seed: int, workdir, spans, clock) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self.now = clock.now
        self.daemon = None
        self.client = None
        #: In order: a ``UnitRecord`` per plain unit, and per probe its
        #: ``(state changed, rejection code)``.
        self.outcomes: List[object] = []

    # ------------------------------------------------------------------
    def setup(self) -> Dict[str, float]:
        from repro.api import DictionaryConfig, build
        from repro.circuit.generate import proxy_response_table
        from repro.store import save_artifact
        from client import Client, Daemon

        spans = self.spans
        self.path = str(self.workdir / "fleet.rfd")
        started = self.now()
        with spans.span("setup"):
            table = proxy_response_table("b14p", n_faults=FLEET_FAULTS)
            with spans.span("build"):
                self.built = build(table, config=DictionaryConfig(
                    calls1=PROXY_CALLS1))
            with spans.span("store.save"):
                save_artifact(self.built, self.path)
            pipeline = self.now() - started
            with spans.span("daemon.start"):
                self.daemon = Daemon(self.path)
            self.client = Client(self.daemon.host, self.daemon.port, self.now)
            loads = [self._pin_load(k > 0) for k in range(PIN_LOADS)]
        table = self.built.table
        self.full = [table.full_row(i) for i in range(table.n_faults)]
        self.n_tests, self.n_outputs = table.n_tests, table.n_outputs
        self.probe = self._probe_observation()
        self.rng = random.Random(self.seed)
        return {"pipeline_s": pipeline, "load_s": median(loads)}

    def _pin_load(self, evict_first: bool) -> float:
        """Seconds for the daemon to load and pin the fleet artifact, from
        disk: a resident copy is evicted first."""
        call = self.client.call
        if evict_first:
            status, doc = call("DELETE", f"/v1/artifacts/{self.content_hash}",
                               record=False)
            if status != 200:
                raise RuntimeError(f"evicting the fleet artifact failed: {doc}")
        started = self.now()
        with self.spans.span("store.load"):
            status, doc = call("POST", "/v1/artifacts", {"path": self.path},
                               record=False)
        elapsed = self.now() - started
        if status != 201:
            raise RuntimeError(f"pinning the fleet artifact failed: {doc}")
        self.content_hash = doc["content_hash"]
        return elapsed

    def _probe_observation(self) -> Tuple[int, tuple]:
        """A fixed observation that narrows a fresh session: the first test
        whose s/d column is not constant, observed at its baseline."""
        baselines = self.built.dictionary.baselines
        sd = oracles.sd_rows(self.full, baselines)
        for j in range(self.n_tests):
            if len({row[j] for row in sd}) > 1:
                return j, tuple(baselines[j])
        raise RuntimeError("no test splits the fleet artifact's faults")

    def _round(self, tx, index: int) -> None:
        """Round ``index`` of a pass: its units, then the probe."""
        first = index * PLAIN_PER_ROUND
        for k in range(first, first + PLAIN_PER_ROUND):
            fault = k * len(self.full) // FLEET_UNITS
            unit = make_unit(self.rng, self.full, self.n_outputs, fault,
                             k == first)
            started = self.now()
            record = run_unit(tx, unit)
            record.unit_s = self.now() - started
            self.outcomes.append(record)
        self.outcomes.append(run_probe(tx, self.probe, self.n_tests))

    @property
    def records(self) -> List[UnitRecord]:
        return [o for o in self.outcomes if isinstance(o, UnitRecord)]

    @property
    def probes(self) -> List[Tuple[bool, str]]:
        return [o for o in self.outcomes if not isinstance(o, UnitRecord)]

    def run(self, seconds: float, trace: bool) -> None:
        """Whole passes, as many as fit ``seconds`` of wall time (at least
        one); traced, the first ``TRACE_ROUNDS`` rounds of one pass."""
        tx = HttpTransport(self.client, self.spans)
        if trace:
            self.metrics_before = self.client.metrics()
        rounds = TRACE_ROUNDS if trace else FLEET_UNITS // PLAIN_PER_ROUND
        started = time.perf_counter()
        with self.spans.span("run"):
            while True:
                pass_started = time.perf_counter()
                for index in range(rounds):
                    self._round(tx, index)
                now = time.perf_counter()
                if trace or now - started + (now - pass_started) > seconds:
                    break
        if trace:
            self.metrics_after = self.client.metrics()
            self._replay()

    def _replay(self) -> None:
        """Serve the same units again in-process, single-threaded."""
        from repro.serve import DiagnosisServer, ServeConfig

        server = DiagnosisServer(ServeConfig(), default_artifact=self.path)
        server.pool.get(self.path)
        tx = LocalTransport(server, self.spans, self.now)
        self.replayed = []
        with self.spans.span("replay"):
            for outcome in self.outcomes:
                if isinstance(outcome, UnitRecord):
                    self.replayed.append(run_unit(tx, outcome.unit))
                else:
                    self.replayed.append(run_probe(tx, self.probe, self.n_tests))
        self.replay_latencies = tx.latencies

    # ------------------------------------------------------------------
    def counts(self) -> Tuple[int, int]:
        attempted = len(self.records) + len(self.probes)
        failed = sum(1 for changed, _ in self.probes if changed)
        return attempted, failed

    def metrics(self) -> Dict[str, float]:
        latencies = self.client.latencies
        plain = [r for r in self.records if r.unit.flipped is None]
        tests = [len(r.applied) for r in self.records]
        return {
            # Noise-free units only: their work is fixed by the fleet, while
            # a noisy unit's flip-budget session took 0.6-4.4 s depending
            # on which test the seed flipped.
            "units_per_s": len(plain) / sum(r.unit_s for r in plain),
            "lookup_ms": trimmed_mean([r.lookup_s for r in self.records]) * 1e3,
            "call.p90_ms": p90(latencies) * 1e3,
            "tests_per_unit": sum(tests) / len(tests),
            "indist_pairs": self.built.report.indistinguished_procedure2,
        }

    def check(self, checks: oracles.Checks) -> None:
        from repro.store import load_artifact

        loaded = load_artifact(self.path)
        full = check_built(checks, "fleet artifact",
                           program_figures(self.built), loaded)
        baselines = loaded.dictionary.baselines
        sd = oracles.sd_rows(full, baselines)
        names = [str(f) for f in loaded.table.faults]
        self.noise_masked = 0
        for record in self.records:
            unit = record.unit
            label = f"unit fault {names[unit.fault]}"
            observed_sd = oracles.sd_row(unit.observed, baselines)
            exact = {names[i] for i in oracles.exact_matches(sd, observed_sd)}
            checks.expect(set(record.exact) == exact,
                          f"{label}: exact lookup returned {sorted(record.exact)}"
                          f", rows matching are {sorted(exact)}")
            if unit.flipped is None:
                checks.expect(names[unit.fault] in record.exact,
                              f"{label}: noise-free lookup misses the fault")
            if record.flip is not None:
                within = {names[i] for i in
                          oracles.within_flips(full, unit.observed, 1)}
                checks.expect(names[unit.fault] in record.flip,
                              f"{label}: flip-budget lookup misses the fault")
                checks.expect(set(record.flip) == within,
                              f"{label}: flip-budget lookup returned "
                              f"{len(record.flip)} faults, {len(within)} are "
                              "within one flip")
            bits = [(j, tuple(s) != tuple(baselines[j])) for j, s in record.applied]
            survivors = oracles.session_survivors(sd, bits, record.budget)
            oracle = {names[i] for i in survivors}
            checks.expect(set(record.final) == oracle,
                          f"{label}: session ended with {len(record.final)} "
                          f"candidates, the oracle keeps {len(oracle)}")
            if unit.flipped is None or record.budget >= 1:
                checks.expect(unit.fault in survivors,
                              f"{label}: the oracle set lost the true fault")
            elif unit.fault not in survivors:
                # The flipped response matched another fault's row exactly,
                # so the client kept a zero flip budget: a tester-noise miss.
                self.noise_masked += 1
        for changed, code in self.probes:
            checks.expect(code == "unmodeled_response",
                          f"probe advance answered {code!r}, expected "
                          "unmodeled_response")
        if hasattr(self, "replayed"):
            final = lambda outcomes: [  # noqa: E731
                o.final if isinstance(o, UnitRecord) else o for o in outcomes]
            checks.expect(final(self.outcomes) == final(self.replayed),
                          "in-process replay disagrees with the daemon")

    def layer_extras(self) -> Dict[str, object]:
        import os

        client = self.client.latencies
        replay = self.replay_latencies
        wire = [c - r for c, r in zip(client, replay)] if len(client) == len(
            replay) else []
        return {
            "remote": delta(self.metrics_after["counters"],
                            self.metrics_before["counters"]),
            "daemon.wire_ms": median(wire) * 1e3 if wire else 0.0,
            "fleet.noise_masked_units": self.noise_masked,
            "fleet.no_suggestion_stops": sum(
                1 for r in self.records if r.stopped_on == "no_suggestion"),
            "store.artifact_bytes": os.path.getsize(self.path),
        }

    def close(self) -> Optional[float]:
        """Stop the daemon; returns its peak resident set in MiB."""
        if self.client is not None:
            self.client.close()
        if self.daemon is not None:
            self.daemon.stop()
            return children_peak_rss_mib()
        return None
