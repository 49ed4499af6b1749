"""The benchmark's oracles against brute force on tiny tables.

Run with ``python3 -m pytest e2ebench/tests`` from the repository root.
"""

import itertools
import random
import time
from types import SimpleNamespace

import pytest

import oracles
from hostclock import HostClock, reference
from spans import Spans

#: Wall time in place of a ``HostClock``.
WALL = SimpleNamespace(now=time.perf_counter)


def random_rows(rng, n_faults, n_tests, n_outputs, pool=3):
    """Full-response rows drawing each signature from a small pool so
    that equal rows (indistinguished pairs) actually occur."""
    signatures = [()] + [
        tuple(sorted(rng.sample(range(n_outputs), rng.randint(1, n_outputs))))
        for _ in range(pool)
    ]
    return [tuple(rng.choice(signatures) for _ in range(n_tests))
            for _ in range(n_faults)]


def brute_pairs(rows, key):
    return sum(1 for a, b in itertools.combinations(rows, 2) if key(a) == key(b))


@pytest.mark.parametrize("seed", range(20))
def test_resolution_matches_pairwise_comparison(seed):
    rng = random.Random(seed)
    full = random_rows(rng, rng.randint(2, 12), rng.randint(1, 5), 3)
    baselines = [rng.choice([(), (0,), (1, 2)]) for _ in full[0]]
    ours = oracles.resolution(full, baselines)
    assert ours["full"] == brute_pairs(full, lambda r: r)
    assert ours["passfail"] == brute_pairs(
        full, lambda r: [s != () for s in r])
    assert ours["samediff"] == brute_pairs(
        full, lambda r: [s != b for s, b in zip(r, baselines)])
    # Both coarser encodings are functions of the full row.
    assert ours["full"] <= min(ours["samediff"], ours["passfail"])


@pytest.mark.parametrize("seed", range(20))
def test_lookup_oracles_match_brute_force(seed):
    rng = random.Random(seed)
    full = random_rows(rng, 10, 4, 3)
    baselines = [rng.choice([(), (0,)]) for _ in range(4)]
    sd = oracles.sd_rows(full, baselines)
    truth = rng.randrange(len(full))
    observed = list(full[truth])
    assert truth in oracles.exact_matches(sd, sd[truth])
    assert oracles.exact_matches(sd, sd[truth]) == {
        i for i in range(len(full))
        if all((full[i][j] != baselines[j]) == (observed[j] != baselines[j])
               for j in range(4))}
    observed[rng.randrange(4)] = (2,)
    for budget in (0, 1, 2):
        assert oracles.within_flips(full, observed, budget) == {
            i for i in range(len(full))
            if sum(a != b for a, b in zip(full[i], observed)) <= budget}


def eliminate(sd, observations, budget):
    """Sequential elimination, the way a session folds observations in."""
    alive, misses = list(range(len(sd))), {}
    for test, bit in observations:
        kept = []
        for i in alive:
            if sd[i][test] != bit:
                misses[i] = misses.get(i, 0) + 1
                if misses[i] > budget:
                    continue
            kept.append(i)
        alive = kept
    return set(alive)


@pytest.mark.parametrize("seed", range(30))
def test_session_survivors_match_sequential_elimination(seed):
    rng = random.Random(seed)
    full = random_rows(rng, 12, 6, 3)
    baselines = [rng.choice([(), (0,)]) for _ in range(6)]
    sd = oracles.sd_rows(full, baselines)
    tests = rng.sample(range(6), rng.randint(0, 6))
    observations = [(j, rng.random() < 0.5) for j in tests]
    for budget in (0, 1, 2):
        assert oracles.session_survivors(sd, observations, budget) == \
            eliminate(sd, observations, budget)


def program_figures(full, baselines, report_p1=None):
    ours = oracles.resolution(full, baselines)
    n, k, m = len(full), len(baselines), 3
    return {
        "full": ours["full"], "passfail": ours["passfail"],
        "samediff": ours["samediff"],
        "procedure1": report_p1 if report_p1 is not None else ours["samediff"],
        "procedure2": ours["samediff"],
        "distinguished": oracles.pairs(n) - ours["samediff"],
        "sizes": (k * n, k * (n + m), k * n * m),
    }


def tiny_case():
    full = [((0,), ()), ((0,), (1,)), ((1,), (1,)), ((), ()), ((1,), (1,))]
    baselines = [(0,), (1,)]
    return full, baselines


def test_check_dictionary_accepts_consistent_figures():
    full, baselines = tiny_case()
    checks = oracles.Checks()
    oracles.check_dictionary(checks, "tiny", full, baselines, 3,
                             program_figures(full, baselines))
    assert checks.correct, checks.failures


@pytest.mark.parametrize("wrong", [
    ("samediff", 1), ("full", 1), ("passfail", -1), ("procedure2", 1),
    ("procedure1", -5), ("distinguished", 1),
])
def test_check_dictionary_rejects_a_wrong_figure(wrong):
    key, shift = wrong
    full, baselines = tiny_case()
    program = program_figures(full, baselines)
    program[key] += shift
    checks = oracles.Checks()
    oracles.check_dictionary(checks, "tiny", full, baselines, 3, program)
    assert not checks.correct


def test_check_dictionary_rejects_wrong_sizes():
    full, baselines = tiny_case()
    program = program_figures(full, baselines)
    program["sizes"] = (1, 2, 3)
    checks = oracles.Checks()
    oracles.check_dictionary(checks, "tiny", full, baselines, 3, program)
    assert not checks.correct


def small_build(seed=3):
    from repro.api import DictionaryConfig, build
    from repro.circuit.generate import proxy_response_table

    table = proxy_response_table("b14p", n_faults=60, n_tests=10)
    return build(table, config=DictionaryConfig(seed=seed, calls1=3))


def test_program_build_passes_and_a_tampered_one_fails(tmp_path):
    from repro.store import load_artifact, save_artifact

    from common import check_built, program_figures

    built = small_build()
    path = tmp_path / "small.rfd"
    save_artifact(built, path)
    checks = oracles.Checks()
    check_built(checks, "small", program_figures(built), load_artifact(path))
    assert checks.correct, checks.failures

    built.report.distinguished_procedure2 += 1
    checks = oracles.Checks()
    check_built(checks, "small", program_figures(built), load_artifact(path))
    assert not checks.correct


@pytest.mark.parametrize("seed", range(10))
def test_program_session_matches_the_session_oracle(seed):
    from repro.serve.session import DiagnosisSession

    built = small_build()
    table, dictionary = built.table, built.dictionary
    full = [table.full_row(i) for i in range(table.n_faults)]
    sd = oracles.sd_rows(full, dictionary.baselines)
    rng = random.Random(seed)
    budget = seed % 2
    session = DiagnosisSession(dictionary, flip_budget=budget)
    observed = list(full[rng.randrange(len(full))])
    observed[rng.randrange(len(observed))] = (0,)
    bits = []
    for test in rng.sample(range(table.n_tests), 5):
        session.observe(test, observed[test])
        bits.append((test, observed[test] != dictionary.baselines[test]))
    assert set(session.candidates) == oracles.session_survivors(sd, bits, budget)
    wrong = set(session.candidates) ^ {0}
    assert wrong != oracles.session_survivors(sd, bits, budget)


def test_self_times_subtract_children():
    spans = Spans(True)
    with spans.span("root"):
        with spans.span("a"):
            with spans.span("b"):
                pass
        with spans.span("b"):
            pass
    own = spans.self_times()
    root = spans.roots_wall()
    assert sum(own.values()) == pytest.approx(root)
    assert all(value >= 0 for value in own.values())
    assert len(spans.durations("b")) == 2


def test_disabled_spans_record_nothing():
    spans = Spans(False)
    with spans.span("root"):
        pass
    assert spans.records == [] and spans.self_times() == {}


def fleet_over(tmp_path, units):
    """A ``FleetSessions`` whose units were served in-process."""
    import wl_fleet
    from repro.serve import DiagnosisServer, ServeConfig
    from repro.store import save_artifact

    built = small_build()
    path = str(tmp_path / "fleet.rfd")
    save_artifact(built, path)
    fleet = wl_fleet.FleetSessions(0, tmp_path, Spans(False), WALL)
    fleet.built, fleet.path = built, path
    table = built.table
    fleet.full = [table.full_row(i) for i in range(table.n_faults)]
    fleet.n_tests = table.n_tests
    server = DiagnosisServer(ServeConfig(), default_artifact=path)
    tx = wl_fleet.LocalTransport(server, Spans(False), time.perf_counter)
    rng = random.Random(7)
    for k in range(units):
        unit = wl_fleet.make_unit(rng, fleet.full, table.n_outputs,
                                  rng.randrange(table.n_faults), k % 3 == 0)
        fleet.outcomes.append(wl_fleet.run_unit(tx, unit))
    fleet.outcomes.append(
        wl_fleet.run_probe(tx, fleet._probe_observation(), table.n_tests))
    return fleet


def test_fleet_checks_pass_on_served_units_and_reject_a_wrong_session(tmp_path):
    fleet = fleet_over(tmp_path, 6)
    checks = oracles.Checks()
    fleet.check(checks)
    assert checks.correct, checks.failures
    assert fleet.counts() == (7, 1)  # the probe shows the partial advance

    record = fleet.records[0]
    record.final = record.final[:-1] if record.final else ["n0/sa0"]
    checks = oracles.Checks()
    fleet.check(checks)
    assert not checks.correct


def test_fleet_checks_reject_a_wrong_exact_lookup(tmp_path):
    fleet = fleet_over(tmp_path, 3)
    fleet.records[1].exact.append("not-a-fault")
    checks = oracles.Checks()
    fleet.check(checks)
    assert not checks.correct


def test_host_clock_is_monotonic_and_leaves_its_samples_out():
    clock = HostClock()
    try:
        readings, samples = [clock.now()], clock.samples
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            reference(200)
            readings.append(clock.now())
        assert clock.samples >= samples + 3  # the timer kept sampling
        assert readings == sorted(readings)
        assert readings[-1] - readings[0] > 0.0
        assert clock.overhead < 0.5
    finally:
        clock.stop()
