"""Independent output checks: the benchmark's own reading of the results.

Everything here works on plain Python data — a fault's full-response row
is a tuple of per-test failing-output signatures (``()`` = pass), and a
same/different bit is ``signature != baseline_j``.  Nothing here uses the
program's partition, kernels or dictionaries, so a fault in those cannot
hide itself by also being in the check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

Row = Tuple[tuple, ...]


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def indistinguished(rows: Iterable[tuple]) -> int:
    """Pairs of faults whose rows are equal: group the rows in a dict."""
    groups: Dict[tuple, int] = {}
    for row in rows:
        groups[row] = groups.get(row, 0) + 1
    return sum(pairs(size) for size in groups.values())


def detection_rows(full: Sequence[Row]) -> List[tuple]:
    return [tuple(signature != () for signature in row) for row in full]


def sd_row(row: Sequence[tuple], baselines: Sequence[tuple]) -> tuple:
    return tuple(tuple(s) != tuple(b) for s, b in zip(row, baselines))


def sd_rows(full: Sequence[Row], baselines: Sequence[tuple]) -> List[tuple]:
    return [sd_row(row, baselines) for row in full]


def resolution(full: Sequence[Row], baselines: Sequence[tuple]) -> Dict[str, int]:
    """Indistinguished pairs of the full, pass/fail and s/d dictionaries."""
    return {
        "full": indistinguished(full),
        "passfail": indistinguished(detection_rows(full)),
        "samediff": indistinguished(sd_rows(full, baselines)),
    }


def exact_matches(sd: Sequence[tuple], observed: tuple) -> Set[int]:
    """Faults whose same/different row equals the observed one."""
    return {i for i, row in enumerate(sd) if row == observed}


def within_flips(full: Sequence[Row], observed: Sequence[tuple],
                 budget: int) -> Set[int]:
    """Faults whose full row differs from ``observed`` on <= budget tests."""
    observed = [tuple(s) for s in observed]
    return {
        i for i, row in enumerate(full)
        if sum(1 for a, b in zip(row, observed) if tuple(a) != b) <= budget
    }


def session_survivors(sd: Sequence[tuple], observations: Sequence[Tuple[int, bool]],
                      budget: int) -> Set[int]:
    """Faults whose stored bits disagree with the observed bits on at most
    ``budget`` of the observed tests."""
    return {
        i for i, row in enumerate(sd)
        if sum(1 for j, bit in observations if row[j] != bit) <= budget
    }


class Checks:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def check_dictionary(checks: Checks, label: str, full: Sequence[Row],
                     baselines: Sequence[tuple], n_outputs: int,
                     program: Dict[str, int]) -> None:
    """Recompute a built dictionary's resolution and hold the program to it.

    ``program`` carries the program's own figures: ``full``, ``passfail``,
    ``samediff`` (the dictionary's indistinguished pairs),
    ``procedure1`` / ``procedure2`` (the build report's indistinguished
    pairs), ``distinguished`` (the report's distinguished pairs after
    Procedure 2) and ``sizes`` (the program's pass/fail, s/d and full
    dictionary sizes in bits).
    """
    ours = resolution(full, baselines)
    n_faults, n_tests = len(full), len(baselines)
    for key in ("full", "passfail", "samediff"):
        checks.expect(ours[key] == program[key],
                      f"{label}: {key} indistinguished pairs: program "
                      f"{program[key]}, recomputed {ours[key]}")
    checks.expect(program["procedure2"] == ours["samediff"],
                  f"{label}: report says {program['procedure2']} pairs after "
                  f"Procedure 2, the dictionary leaves {ours['samediff']}")
    checks.expect(
        ours["full"] <= program["procedure2"] <= program["procedure1"]
        <= ours["passfail"],
        f"{label}: ordering full <= s/d(P2) <= s/d(P1) <= pass/fail broken: "
        f"{ours['full']}, {program['procedure2']}, {program['procedure1']}, "
        f"{ours['passfail']}")
    checks.expect(
        program["procedure2"] + program["distinguished"] == pairs(n_faults),
        f"{label}: indistinguished + distinguished != C({n_faults}, 2)")
    sizes = (n_tests * n_faults, n_tests * (n_faults + n_outputs),
             n_tests * n_faults * n_outputs)
    checks.expect(tuple(program["sizes"]) == sizes,
                  f"{label}: program sizes {program['sizes']} (pass/fail, "
                  f"s/d, full) != recomputed {sizes}")
    checks.expect(sizes[0] < sizes[1] < sizes[2],
                  f"{label}: sizes pass/fail < s/d < full broken: {sizes}")
