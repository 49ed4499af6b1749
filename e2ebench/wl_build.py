"""The two build workloads: ``table6_atpg`` and ``proxy10k_build``.

A round takes every cell of the workload through the user's path from
input to a served dictionary, one cell after the other:

1. *pipeline* — input to artifact on disk (summed over cells: ``pipeline_s``);
2. *load* — the artifact into a cold ``ArtifactPool``, i.e. restored and
   wrapped in a ready ``Diagnoser``; the median of ``load_repeats``
   fresh pools, summed over cells (``load_s``);
3. *lookups* — after each load, seeded noise-free units, each diagnosed
   from its full response by ``DiagnosisServer.diagnose_one`` in-process
   (``lookup_ms``, ``call.p90_ms``, ``units_per_s``; every unit
   applies every test, so ``tests_per_unit`` is the test-set size).

Each timed step starts from a collected heap (``gc.collect()``, untimed),
so one step's garbage is not billed to the next.  The benchmark's own
work between steps is traced as ``bench.untimed`` and left out of the
traced run's coverage.
"""

from __future__ import annotations

import gc
import os
import random
import time
from statistics import median
from typing import Dict, List, Tuple

import oracles
from common import (PROXY_CALLS1, check_built, p90, program_figures,
                    trimmed_mean)


class BuildWorkload:
    name = ""
    #: Cold loads per cell and round (the median counts), each followed
    #: by ``lookups_per_load`` seeded lookups, so that both are sampled
    #: across the round rather than in one short stretch of it.
    load_repeats = 1
    lookups_per_load = 0

    def __init__(self, seed: int, workdir, spans, clock) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self.now = clock.now
        self.pipeline: List[float] = []
        self.load: List[float] = []
        self.lookup_time = 0.0
        self.latencies: List[float] = []
        self.tests_applied: List[int] = []
        self.cells_built = 0
        self.rng = random.Random(seed)

    def setup(self) -> Dict[str, float]:
        from repro.api import DictionaryConfig, build
        from repro.serve import DiagnosisServer, ServeConfig
        from repro.serve.schemas import DiagnoseRequest
        from repro.store import save_artifact

        self.build, self.config = build, DictionaryConfig
        self.server_class, self.serve_config = DiagnosisServer, ServeConfig
        self.request = DiagnoseRequest
        self.save = save_artifact
        self.prepare()
        return {}

    def prepare(self) -> None:
        """Work the workload's set-up does beyond imports."""

    def cell_names(self) -> List[str]:
        raise NotImplementedError

    def make_cell(self, name: str):
        """Run the pipeline for one cell: ``(live build, artifact path)``."""
        raise NotImplementedError

    def round(self) -> None:
        spans = self.spans
        pipeline = load = 0.0
        self.last = []
        for name in self.cell_names():
            with spans.span("bench.untimed"):
                gc.collect()
            started = self.now()
            built, path = self.make_cell(name)
            pipeline += self.now() - started
            self.cells_built += 1
            with spans.span("bench.untimed"):
                program = program_figures(built)
                del built

            loads, answers = [], []
            for _ in range(self.load_repeats):
                with spans.span("bench.untimed"):
                    server = self.server_class(self.serve_config())
                    gc.collect()
                started = self.now()
                with spans.span("store.load"):
                    entry = server.pool.get(path)
                loads.append(self.now() - started)
                answers += self._lookups(server, entry, path)
            load += median(loads)
            self.last.append((name, path, program, entry, answers))
        self.pipeline.append(pipeline)
        self.load.append(load)

    def _lookups(self, server, entry, path) -> List[Tuple[int, List[str]]]:
        table = entry.table
        requests = []
        with self.spans.span("bench.untimed"):
            for _ in range(self.lookups_per_load):
                fault = self.rng.randrange(table.n_faults)
                observed = [list(s) for s in table.full_row(fault)]
                requests.append((fault, self.request.from_dict(
                    {"observed": observed, "artifact": path},
                    default_id="lookup")))
            gc.collect()
        answers = []
        started = self.now()
        for fault, request in requests:
            called = self.now()
            with self.spans.span("serve.lookup"):
                outcome = server.diagnose_one(request)
            self.latencies.append(self.now() - called)
            answers.append((fault, list(outcome.exact)))
        self.lookup_time += self.now() - started
        self.tests_applied.extend([table.n_tests] * len(requests))
        return answers

    def run(self, seconds: float, trace: bool) -> None:
        """Whole rounds: one when traced, else as many as fit ``seconds`` of
        wall time."""
        started = time.perf_counter()
        with self.spans.span("run"):
            while True:
                round_started = time.perf_counter()
                self.round()
                now = time.perf_counter()
                if trace or now - started + (now - round_started) > seconds:
                    break

    def counts(self) -> Tuple[int, int]:
        return self.cells_built + len(self.latencies), 0

    def metrics(self) -> Dict[str, float]:
        return {
            "pipeline_s": median(self.pipeline),
            "load_s": median(self.load),
            "indist_pairs": sum(program["procedure2"]
                                for _, _, program, _, _ in self.last),
            "units_per_s": len(self.latencies) / self.lookup_time,
            "lookup_ms": trimmed_mean(self.latencies) * 1e3,
            "call.p90_ms": p90(self.latencies) * 1e3,
            "tests_per_unit": sum(self.tests_applied) / len(self.tests_applied),
        }

    def check(self, checks: oracles.Checks) -> None:
        for name, _, program, entry, answers in self.last:
            full = check_built(checks, name, program, entry.built)
            sd = oracles.sd_rows(full, entry.built.dictionary.baselines)
            names = [str(f) for f in entry.table.faults]
            for fault, exact in answers:
                want = {names[i] for i in oracles.exact_matches(sd, sd[fault])}
                checks.expect(set(exact) == want,
                              f"{name}: lookup of {names[fault]} returned "
                              f"{sorted(exact)}, rows matching are "
                              f"{sorted(want)}")

    def layer_extras(self) -> Dict[str, float]:
        extras = {"store.artifact_bytes": sum(
            os.path.getsize(path) for _, path, _, _, _ in self.last)}
        if self.name == Table6Atpg.name:
            extras["atpg.tests"] = sum(
                entry.table.n_tests for _, _, _, entry, _ in self.last)
        return extras

    def close(self):
        return None


class Table6Atpg(BuildWorkload):
    """Netlist to artifact for the Table-6 cells at paper settings."""

    name = "table6_atpg"
    CELLS = ("p208/diag", "p208/10det", "p298/diag", "p298/10det")
    load_repeats = 10
    lookups_per_load = 50

    def prepare(self) -> None:
        from repro.atpg.diagnostic import generate_diagnostic_tests
        from repro.atpg.ndetect import generate_ndetect_tests
        from repro.circuit.library import load_circuit
        from repro.circuit.scan import prepare_for_test
        from repro.faults.collapse import collapse
        from repro.sim.faultsim import FaultSimulator
        from repro.sim.responses import ResponseTable

        self.load_circuit, self.prepare_for_test = load_circuit, prepare_for_test
        self.collapse = collapse
        self.atpg = {
            "diag": lambda nl, faults: generate_diagnostic_tests(
                nl, faults, seed=self.seed),
            "10det": lambda nl, faults: generate_ndetect_tests(
                nl, faults, n=10, seed=self.seed),
        }
        self.simulator, self.response_table = FaultSimulator, ResponseTable

    def cell_names(self) -> List[str]:
        return list(self.CELLS)

    def make_cell(self, name: str):
        spans = self.spans
        circuit, test_type = name.split("/")
        with spans.span("circuit.load"):
            netlist = self.load_circuit(circuit)
        with spans.span("circuit.prepare"):
            netlist = self.prepare_for_test(netlist)
        with spans.span("faults.collapse"):
            faults = self.collapse(netlist)
        with spans.span(f"atpg.{test_type}"):
            tests, _ = self.atpg[test_type](netlist, faults)
        with spans.span("sim.responses"):
            simulator = self.simulator(netlist, tests)
            detected = [f for f in faults if simulator.detection_word(f)]
            table = self.response_table.build(netlist, detected, tests)
        with spans.span("build"):
            built = self.build(table, config=self.config(seed=self.seed))
        path = str(self.workdir / f"{circuit}-{test_type}.rfd")
        with spans.span("store.save"):
            self.save(built, path)
        return built, path


class Proxy10kBuild(BuildWorkload):
    """The 10k-fault b14p proxy table with 300 tests: table to artifact.

    Neither the table (the preset's) nor the build depends on the seed,
    which drives only the lookups.  With CALLS1 = 8 the number of
    Procedure 1 restarts, and so the build's work, depends on the build
    seed: over seeds 1-10 the pipeline took 18.7-24.3 s, the same again
    for each seed.  So the build runs with seed 0, like the fleet's.
    """

    name = "proxy10k_build"
    FAULTS, TESTS = 10_000, 300
    load_repeats = 2
    lookups_per_load = 50

    def prepare(self) -> None:
        from repro.circuit.generate import proxy_response_table

        self.proxy = proxy_response_table
        self.table = self._table()

    def _table(self):
        return self.proxy("b14p", n_faults=self.FAULTS, n_tests=self.TESTS)

    def cell_names(self) -> List[str]:
        if self.table is None:  # a fresh, un-interned table for every round
            self.table = self._table()
        return ["b14p/10k"]

    def make_cell(self, name: str):
        table, self.table = self.table, None
        with self.spans.span("build"):
            built = self.build(table, config=self.config(calls1=PROXY_CALLS1))
        path = str(self.workdir / "b14p-10k.rfd")
        with self.spans.span("store.save"):
            self.save(built, path)
        return built, path
