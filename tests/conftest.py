"""Shared fixtures, hypothesis profile, and the acceptance summary hook."""
import math
import re

import pytest
from hypothesis import settings

from trilat.geometry import SensorConfig

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

S3 = math.sqrt(3.0)

# The three criterion-9 multiplicity maps: (r, s, d1 window, d3 window).
MAP_WINDOWS = {
    "eq": (2.0, S3, (1.0, 9.0), (0.2, 9.0)),
    "s3": (2.0, 3.0, (1.0, 11.0), (0.2, 11.0)),
    "s1": (2.0, 1.0, (0.6, 9.0), (0.05, 9.0)),
}


def sweep_axes(lo1, hi1, lo3, hi3, n):
    """The d1 and d3 values ``trilat sweep`` visits, in its own arithmetic."""
    return ([lo1 + (hi1 - lo1) * i / (n - 1) for i in range(n)],
            [lo3 + (hi3 - lo3) * i / (n - 1) for i in range(n)])


def canonical(r: float, s: float, d1: float, d3: float) -> SensorConfig:
    """Isosceles instance in the canonical frame with d2 = d1."""
    return SensorConfig.from_canonical(r, s, (d1, d1, d3))


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture
def five_way_exact() -> SensorConfig:
    """The exact five-minimizer instance (sharp apex, s=3, r=2)."""
    return canonical(2.0, 3.0, math.sqrt(50.0), math.sqrt(40.0))


@pytest.fixture
def five_way_printed() -> SensorConfig:
    """Same instance at four printed decimals; the exact ties split."""
    return canonical(2.0, 3.0, 7.0711, 6.3246)


# ---------------------------------------------------------------------------
# acceptance criteria summary:  one PASS/FAIL line per criterion at the end
# of the run, regardless of how pytest itself reports the test items.

_LABELS: dict = {}
_RESULTS: dict = {}


def register_criterion(number: int, label: str) -> None:
    _LABELS[number] = label


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match:
        n = int(match.group(1))
        if rep.when == "call":
            _RESULTS[n] = rep.passed
        elif rep.when == "setup" and not rep.passed:
            _RESULTS[n] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LABELS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_LABELS):
        if n in _RESULTS:
            verdict = "PASS" if _RESULTS[n] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict} - {_LABELS[n]}")
