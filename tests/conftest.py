"""Shared test plumbing: acceptance criteria report lines, and the
calibration fit gates for small grids.

Each acceptance test registers exactly one line; they are echoed in the
terminal summary so the pass/fail status of every criterion is visible in
one place regardless of output capturing, each with the wall time of its
test's call phase.
"""

import pytest

from dtrkit import calibrate

_criterion_lines = {}
_criterion_seconds = {}


@pytest.fixture
def fit_gates(monkeypatch):
    """Sets the polynomial fit gates of :mod:`dtrkit.calibrate` for one test.

    A grid of a few values at a small ``n_cal`` has a ratio curve too noisy
    for the default gates, so such a test names the gates it relies on:
    ``fit_gates(adj_r2_target, max_rel_dev, poly_max_degree=20)``.
    """

    def set_gates(adj_r2_target, max_rel_dev, poly_max_degree=calibrate.POLY_MAX_DEGREE):
        monkeypatch.setattr(calibrate, "ADJ_R2_TARGET", adj_r2_target)
        monkeypatch.setattr(calibrate, "MAX_REL_DEV", max_rel_dev)
        monkeypatch.setattr(calibrate, "POLY_MAX_DEGREE", poly_max_degree)

    return set_gates


def record_criterion(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    _criterion_lines[number] = f"criterion {number} ({description}): {status}"


def pytest_runtest_logreport(report):
    name = report.nodeid.rpartition("::")[2]
    if report.when == "call" and name.startswith("test_criterion_"):
        _criterion_seconds[int(name.split("_")[2])] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_criterion_lines):
        seconds = _criterion_seconds.get(number)
        timing = "" if seconds is None else f" in {seconds:.1f} s"
        terminalreporter.write_line(_criterion_lines[number] + timing)
