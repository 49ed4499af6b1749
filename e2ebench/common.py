"""Helpers shared by the workloads: paths, statistics, program checks."""

from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: CALLS1 (Procedure 1 restarts without improvement) of the proxy builds.
#: At the paper's 100 one 10k build ran 232 restarts and 76 s.
PROXY_CALLS1 = 8


def use_checkout_sources() -> None:
    """Import the checkout's program, with no ``REPRO_*`` setting, so every
    run measures the defaults a user gets."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """The environment of a program subprocess (after
    :func:`use_checkout_sources`)."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def trimmed_mean(values: Sequence[float]) -> float:
    """The mean of the middle 80% (the lowest and highest tenth dropped)."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mib() -> float:
    """Largest peak resident set among this process's waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def registry_counts() -> Dict[str, float]:
    """Counters and timer totals of the program's default metrics registry."""
    from repro.obs import get_default_registry

    snap = get_default_registry().snapshot()
    counts: Dict[str, float] = dict(snap["counters"])
    for name, summary in snap["timers"].items():
        counts[name + ".total"] = summary.get("total", 0.0)
    return counts


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def full_rows(table) -> List[tuple]:
    return [table.full_row(i) for i in range(table.n_faults)]


def program_figures(live) -> Dict[str, object]:
    """The program's own figures for a live build, for :func:`check_built`.

    Taken right after the build so the live build can be dropped before
    the artifact is loaded back.
    """
    from repro.dictionaries import FullDictionary, PassFailDictionary
    from repro.store import semantic_digest

    report = live.report
    full_dict = FullDictionary(live.table)
    pf_dict = PassFailDictionary(live.table)
    return {
        "full": full_dict.indistinguished_pairs(),
        "passfail": pf_dict.indistinguished_pairs(),
        "samediff": live.dictionary.indistinguished_pairs(),
        "procedure1": report.indistinguished_procedure1,
        "procedure2": report.indistinguished_procedure2,
        "distinguished": report.distinguished_procedure2,
        "sizes": (pf_dict.size_bits, live.dictionary.size_bits,
                  full_dict.size_bits),
        "digest": semantic_digest(live),
    }


def check_built(checks: oracles.Checks, label: str, program: Dict[str, object],
                loaded) -> List[tuple]:
    """Hold a build's figures and its saved-and-loaded artifact to the oracles.

    Returns the loaded table's full-response rows for later lookups.
    """
    from repro.store import semantic_digest

    table = loaded.table
    full = full_rows(table)
    oracles.check_dictionary(checks, label, full, loaded.dictionary.baselines,
                             table.n_outputs, program)
    checks.expect(semantic_digest(loaded) == program["digest"],
                  f"{label}: loaded artifact's semantic digest differs from "
                  "the live build's")
    return full
